"""Out-of-order engine substrate: ROB, IQ, LSQ, Store Sets, FU pool and banked PRF."""
