"""The one slab error, its configuration case, and the cutoff warning."""


class SlabError(Exception):
    """A computation slab cannot carry out on its inputs; the message
    names the input and the limit it crossed."""


class ConfigInvalid(SlabError):
    """Experiment configuration failed schema validation."""


class CutoffLeakage(UserWarning):
    """Noticeable spectral mass sits where the cutoff transitions."""
