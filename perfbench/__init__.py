"""Layered benchmark for search_engine_ray: see README.md in this directory."""
