import siggraphgan


def test_every_export_resolves():
    """`from siggraphgan import *` fails on any name in __all__ the package lacks."""
    assert [name for name in siggraphgan.__all__ if not hasattr(siggraphgan, name)] == []
