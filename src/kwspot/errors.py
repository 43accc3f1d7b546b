"""Exception hierarchy shared across the toolkit, and the text-file read
that names a file which is not UTF-8."""


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


def read_text(path, error: type[Exception]) -> str:
    """The text of the UTF-8 file ``path``; any other bytes raise ``error``
    naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 ({exc.reason})") from None
