"""Branch prediction unit: TAGE, BTB, return-address stack and global history."""
