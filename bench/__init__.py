"""End-to-end run_coloring benchmark package (see README.md)."""
