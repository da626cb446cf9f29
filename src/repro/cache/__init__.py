"""Memcached-like cache substrate with digest hooks (paper Section V-A3)."""
