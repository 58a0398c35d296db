"""From-scratch NetBench reimplementations running on simulated memory."""
