"""evmsleuth: post-mortem exploit detection over EVM transaction traces
and block-edge state deltas, with a replayable local fixture chain."""

__version__ = "0.1.0"
