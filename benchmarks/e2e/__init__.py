"""End-to-end "reproduce the paper" benchmark (see README.md)."""
