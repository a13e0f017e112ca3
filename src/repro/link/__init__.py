"""Linking: relocatable memory objects -> loadable executable image."""

from .objects import AccessNote, DataObject, FunctionCode, Program
from .image import Image, PlacedObject, symbol_deltas
from .linker import LinkError, link

__all__ = [
    "AccessNote", "DataObject", "FunctionCode", "Program",
    "Image", "PlacedObject", "symbol_deltas", "LinkError", "link",
]
