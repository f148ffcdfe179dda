"""Exception hierarchy shared across the package.

Input-shaped problems (bad trees, bad prior text, bad files) derive from
InputError; failures that can only surface while running (sampler giving up,
state blow-up) derive from RuntimeFailure.  The CLI maps the former to exit
code 2 and the latter to exit code 3.
"""


class TreegressError(Exception):
    pass


class InputError(TreegressError):
    pass


class RuntimeFailure(TreegressError):
    pass


# -- tree construction --------------------------------------------------------

class ArityMismatch(InputError):
    def __init__(self, symbol, expected, got):
        super().__init__(f"symbol '{symbol}' has rank {expected} but {got} children")


class UnknownSymbol(InputError):
    pass


# -- prior text ----------------------------------------------------------------

class PrteSyntaxError(InputError):
    def __init__(self, message, line, col):
        self.line = line
        self.col = col
        super().__init__(f"{message} (line {line}, column {col})")


class WeightSumError(InputError):
    pass


class UnboundVariable(InputError):
    pass


class NonTerminatingIter(InputError):
    pass


# -- automata / sampling --------------------------------------------------------

class AlphabetMismatch(InputError):
    pass


class StateBudgetExceeded(RuntimeFailure):
    pass


class DepthBudgetExhausted(RuntimeFailure):
    pass


class ImpossibleContext(RuntimeFailure):
    pass


# -- numerics -------------------------------------------------------------------

class SizeMismatch(InputError):
    pass


class LengthMismatch(InputError):
    pass
