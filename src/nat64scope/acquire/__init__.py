"""Data acquisition: wire formats, dataset files, IP-to-AS mapping, probing."""
