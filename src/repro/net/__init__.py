"""Packet substrate: IPv4 headers, packets, and synthetic trace generators."""
