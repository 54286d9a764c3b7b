"""damagekit: building damage assessment from classified rasters.

Turns a per-pixel damage classification raster plus building footprints into
per-building damage percentages, matches field survey points to footprints,
and scores the result with precision-recall metrics. Ships a deterministic
synthetic scene generator for end-to-end testing.
"""

__version__ = "0.1.0"
