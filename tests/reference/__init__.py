"""Reference-only twins of library kernels, used by equivalence tests."""
