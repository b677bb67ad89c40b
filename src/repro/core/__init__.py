"""The paper's contribution: Early Execution, Late Execution and the EOLE variants."""
