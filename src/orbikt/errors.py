"""Error taxonomy shared by all modules.

Two user-facing families matter for the CLI exit status: InputError (exit 1,
the input itself is unusable) and RefusalError (exit 2, the input is fine but
a mathematical precondition of the requested computation does not hold).
Everything else signals an internal bug and is never expected in normal use.
``echo`` quotes an input token in a message, by its length when it is long.
"""


def echo(text, what=None):
    """repr(text), after what when given; past 40 characters, "a <what> of
    <n> characters" instead, what defaulting to "token", so that a message
    never repeats a long input token whole."""
    if len(text) > 40:
        return "a %s of %d characters" % (what or "token", len(text))
    return "%s %r" % (what, text) if what else repr(text)


class OrbiktError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1

    @property
    def kind(self):
        return type(self).__name__


class InputError(OrbiktError):
    """The supplied input could not be used (parse failure, bad table, ...)."""

    exit_code = 1


class RefusalError(OrbiktError):
    """A well-formed request whose mathematical precondition fails."""

    exit_code = 2

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ParseError(InputError):
    pass


class NotAGroup(InputError):
    pass


class NotSubgroup(InputError):
    pass


class BoundExceeded(InputError):
    pass


class NotAComplex(InputError):
    pass


class BadAction(InputError):
    pass


class UnknownFixture(InputError):
    pass


class NotAdmissible(RefusalError):
    """Some group element fixes a simplex setwise but not pointwise.

    Carries the witness pair (g, simplex).
    """


class NonConstantStabilizer(RefusalError):
    """A stratum's irreps do not match up around it; carries as witness two
    (orbit, irrep) nodes of one orbit that the prim poset joins inside it."""


class NotIsolated(RefusalError):
    """Some singular orbit is not an isolated vertex orbit."""


class NotApplicable(RefusalError):
    """Hypotheses of the requested identity fail on this input."""


class NotOpen(RefusalError):
    """A filtration step is not open in the specialization topology.

    Carries the 1-based step index and a witness pair (inside, outside).
    """

    def __init__(self, message, step=None, witness=None):
        super().__init__(message, witness)
        self.step = step


class InternalInconsistency(OrbiktError):
    """A self-check failed; indicates a bug, not a user error."""


class NonIntegralMultiplicity(InternalInconsistency):
    """A character inner product came out non-integral or negative."""


class NonIntegralResult(OrbiktError):
    """An averaged quantity that must be an integer is not."""
