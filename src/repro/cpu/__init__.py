"""Processor substrate: cycle/energy accounting and fatal-error watchdogs."""
