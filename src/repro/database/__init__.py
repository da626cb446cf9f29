"""Sharded database tier (the authoritative store behind the caches)."""
