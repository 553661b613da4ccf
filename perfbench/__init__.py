"""Performance benchmark for the ``repro`` package (see ``README.md``)."""
