"""Web-server tier: the simulated driver of Algorithm 2 data retrieval."""
