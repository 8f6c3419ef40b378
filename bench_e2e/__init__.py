"""End-to-end benchmark of the stream reasoner; see README.md in this directory."""
