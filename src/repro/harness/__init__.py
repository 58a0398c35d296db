"""Experiment harness: configs, runners, and paper-artifact generators."""
