"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """An operation received arguments outside its documented domain."""


class UsageError(InvalidInputError):
    """A setting lies outside its documented range; the CLI exits 1 on it."""


class DatasetError(ValueError):
    """Base class for dataset loading and validation failures."""


class ManifestParseError(DatasetError):
    """The dataset manifest could not be parsed or is structurally wrong."""


class MissingFileError(DatasetError):
    """A file referenced by the manifest does not exist."""


class DimensionMismatchError(DatasetError):
    """A sample's landmarks or features disagree with the declared shape."""


class CheckpointError(ValueError):
    """A model checkpoint is malformed or has an unsupported version."""


class CacheMismatchError(RuntimeError):
    """A backward pass was given a cache built against different parameters."""


class NumericError(ArithmeticError):
    """Training produced non-finite values."""
