"""Composable message-passing flows with LLM backends, a code-judging
sandbox, and an evaluation harness for competitive-coding experiments.
"""

from . import ccflows, compose, llm, sandbox  # noqa: F401  (register flow kinds)

__version__ = "0.1.0"
