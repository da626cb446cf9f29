"""Proteus core: placement, routing, migration, and smooth transitions."""
