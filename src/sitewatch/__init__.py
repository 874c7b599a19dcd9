"""Excavator activity, safety, and productivity analytics over perception streams."""
