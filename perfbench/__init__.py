"""The repo benchmark (see run.py and README.md)."""
