"""Toolkit for detecting NAT64/DNS64 deployments and measuring their path cost."""
