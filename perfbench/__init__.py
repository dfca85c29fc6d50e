"""fibersemi benchmark harness; see README.md in this directory."""
