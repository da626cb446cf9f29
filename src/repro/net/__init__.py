"""Runnable memcached-protocol substrate (paper Section V-A3 analogue)."""
