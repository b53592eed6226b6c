"""The end-to-end benchmark harness (see ``benchmarks/e2e/README.md``)."""
