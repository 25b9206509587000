"""Reference implementations the differential suites compare against.

Nothing here is imported by ``src/``: an oracle earns its keep by *not*
sharing code with the path it checks.
"""
