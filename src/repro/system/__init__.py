"""System-level models: multi-engine NPs and line-rate analysis."""
