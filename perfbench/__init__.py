"""perfbench: the traced benchmark of the CAQE engine (see README.md)."""
