"""Self-directed learning of halfspaces: learners, baselines, and verifiers."""

__version__ = "0.1.0"
