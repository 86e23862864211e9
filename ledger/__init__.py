"""ledger — the repo's end-to-end performance benchmark (see README.md)."""
