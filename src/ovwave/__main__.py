"""``python -m ovwave`` runs the ``ovwave`` command."""
from .cli import entrypoint

entrypoint()
