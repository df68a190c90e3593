"""Exception hierarchy for the PaPar reproduction.

Every error raised by this package derives from :class:`PaParError` so that
callers can catch framework failures without also swallowing programming
errors (``TypeError`` etc. still propagate untouched).
"""

from __future__ import annotations


class PaParError(Exception):
    """Base class for all errors raised by this package."""

    #: the CLI's exit status when this error ends a command: 2 says the
    #: command could not be run as given (a config, a path, an argument)
    exit_code = 2


class ConfigError(PaParError):
    """A configuration file is malformed or references unknown entities."""


class SchemaError(ConfigError):
    """An input-data description (record schema) is invalid."""


class WorkflowError(ConfigError):
    """A workflow configuration is invalid (unknown operator, bad ``$ref``...)."""


class OperatorError(PaParError):
    """An operator was invoked with invalid arguments or data."""


class PolicyError(PaParError):
    """A distribution or split policy is invalid for the given data."""


class FormatError(PaParError):
    """Data could not be encoded/decoded in the requested record format."""


class PartWriteError(FormatError):
    """The operating system refused a part file (full disk, permission,
    no descriptor left): the run failed, and published nothing."""

    exit_code = 1


class MPIError(PaParError):
    """Errors from the simulated MPI runtime."""


class DeadlockError(MPIError):
    """A rank waited past the fabric's ``deadlock_grace`` for a message.

    Carries the blocked ranks' pending ``(source, tag)`` state so that a
    stuck collective is diagnosable instead of hanging the run forever.
    """

    def __init__(self, message: str, rank: int = -1, pending: dict | None = None) -> None:
        super().__init__(message)
        #: the rank that gave up waiting
        self.rank = rank
        #: snapshot of blocked ranks -> (source, tag) at the time of the error
        self.pending = dict(pending or {})


class WorkerCrash(MPIError):
    """A rank process died or froze underneath the process-backend supervisor.

    Raised by :class:`repro.mpi.supervisor.Supervisor` when a worker's
    sentinel fires without an exit message (killed by a signal, nonzero
    ``os._exit``, silent death) or its heartbeat lane goes quiet (hang).
    Carries enough structure for the gang-restart report printed by the CLI.
    """

    def __init__(
        self,
        message: str,
        rank: int = -1,
        kind: str = "signal",
        exitcode: int | None = None,
        signal_name: str | None = None,
    ) -> None:
        super().__init__(message)
        #: the rank whose process died or hung
        self.rank = rank
        #: one of ``"signal"``, ``"exit"``, ``"silent"``, ``"hang"``
        self.kind = kind
        #: raw ``Process.exitcode`` (negative = killed by that signal)
        self.exitcode = exitcode
        #: symbolic signal name (``"SIGKILL"``...) when killed by a signal
        self.signal_name = signal_name

    def as_report(self) -> dict:
        """The crash as a plain dict for ``extra["fault"]["crashes"]``."""
        return {
            "rank": self.rank,
            "kind": self.kind,
            "exitcode": self.exitcode,
            "signal": self.signal_name,
            "detail": str(self),
        }


class InjectedFault(MPIError):
    """A failure deliberately injected by the fault-injection layer."""


class CorruptMessageError(MPIError):
    """A message failed its transport checksum (injected corruption)."""


class FaultToleranceError(PaParError):
    """The fault-tolerance layer was misconfigured or exhausted its retries."""


class MapReduceError(PaParError):
    """Errors from the MapReduce kernels, partitioners and Hadoop runner."""


class CodegenError(PaParError):
    """The code generator could not emit a partitioner for the workflow."""


class ClusterError(PaParError):
    """The cluster cost model was configured inconsistently."""


class Record:
    """An immutable value record, built without generated source (no
    ``@dataclass``, no ``NamedTuple``): a subclass annotates its fields in
    order, a default being a class attribute.  An instance takes them by
    position or name, refuses assignment, and compares and hashes by
    :meth:`_compared` — every field, unless the subclass leaves some out.
    A subclass that validates writes its ``__dict__`` in its own
    ``__init__``."""

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of immutable {type(self).__name__}")

    __delattr__ = __setattr__

    def __init_subclass__(cls) -> None:
        cls._fields = cls._fields + tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *values: object, **named: object) -> None:
        fields = dict(zip(self._fields, values), **named)
        vars(self).update(fields)
        if (len(values) > len(self._fields) or not fields.keys() <= set(self._fields)
                or not all(hasattr(self, name) for name in self._fields)):
            raise TypeError(f"{type(self).__name__} takes the fields {self._fields}")

    def _compared(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._compared() == other._compared()

    def __hash__(self) -> int:
        return hash(self._compared())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"
