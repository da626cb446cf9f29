"""Memcached-like cache substrate with a built-in digest (Section V-A3)."""
