"""Memory hierarchy substrate: caches, MSHRs, stride prefetcher and DRAM model."""
