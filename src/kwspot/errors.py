"""Exception hierarchy shared across the toolkit."""


class KwspotError(Exception):
    """Base class for all toolkit errors."""


class DuplicateUnit(KwspotError):
    pass


class EmptyUnitSet(KwspotError):
    pass


class OutOfVocabulary(KwspotError):
    def __init__(self, symbol, position=None):
        self.symbol = symbol
        self.position = position
        msg = f"symbol {symbol!r} not in vocabulary"
        if position is not None:
            msg += f" (position {position})"
        super().__init__(msg)


class BadFormat(KwspotError):
    pass


class InvalidTranscript(KwspotError):
    pass


class AlignmentInfeasible(KwspotError):
    pass


class EmptyCorpus(KwspotError):
    pass


class BadSyllable(KwspotError):
    pass


class InvalidKeyword(KwspotError):
    pass


class UnitSetMismatch(KwspotError):
    pass
