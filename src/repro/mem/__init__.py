"""Memory-system substrate: caches, fault injection, parity, recovery."""
