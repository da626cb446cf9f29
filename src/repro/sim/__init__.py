"""Discrete-event simulation substrate: clock, events, queues, metrics."""
