"""Exception types shared across the package."""


class HieTanError(Exception):
    """Base class for every error raised by this library."""


class CyclicHierarchy(HieTanError):
    """The feature hierarchy contains a directed cycle."""


class IndexOutOfRange(HieTanError, IndexError):
    """A feature index does not exist in the structure it was used with."""


class ParseError(HieTanError):
    """An input file does not follow its grammar."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class NonBinaryValue(HieTanError):
    """A feature or class value outside {0, 1} was encountered."""


class MissingClassColumn(HieTanError):
    """The dataset header does not end with the mandatory ``class`` column."""


class DimensionMismatch(HieTanError):
    """Two objects that must agree on feature/instance counts do not."""


class TooFewInstances(HieTanError):
    """Not enough instances (overall or per class) for the requested folds."""


class DegenerateDistribution(HieTanError):
    """Probabilities cannot be estimated: no data and no smoothing."""


class TooFewFeatures(HieTanError, ValueError):
    """Ranking feature pairs needs at least two features."""


class UnreadableName(HieTanError, ValueError):
    """A feature name would not read back from the file it is to be written to."""


class EmptyFeatureSet(HieTanError):
    """A structure learner was asked to build a tree over zero features."""


class EmptyTrainingSet(HieTanError):
    """Classifier fitting requires at least one training instance."""


class IncompleteTable(HieTanError):
    """The per-dataset GMean table has methods with differing lengths."""


class DegenerateRanks(HieTanError):
    """The rank table is too small for the Friedman / Holm procedure."""


class UndefinedClassSide(HieTanError):
    """Sensitivity or specificity is undefined because a class is absent."""


class WrongMethod(HieTanError):
    """The requested command only applies to a different learning method."""
