"""Build, cache and load the colony's compiled calls.

``roulette.c`` ships with the package.  It exports three functions: one
colony call after its layout checks (the refusals of its draws and scores,
the scores, the start columns, the capped draws, the roulette steps and the
tour lengths), one colony's evaporate-and-deposit, and one iteration's draw
blocks from their PCG64 seed words; ``_SIGNATURES`` gives each one's ctypes
signature.
``load`` compiles the source once with the system's ``cc`` and ``FLAGS``:
no fast-math, no ``-march`` and no fused multiply-add, so every sum and
product stays one rounded IEEE double operation, as in numpy.  The shared
object is cached under a hash of the source and the flags in
``$XDG_CACHE_HOME/sinepath``, else ``~/.cache/sinepath``, and never in the
shared temp dir, where another user could plant an object.  It is written
under a temporary name and renamed into place, so processes that build at
once leave one whole object, and each loads it with ``ctypes``.  Each new
``roulette.c`` or set of flags compiles a new object beside the old ones,
and nothing removes the old ones; the cache directory can be deleted at
any time, and the next colony call builds it again.  Any failure raises
``Unavailable`` naming its cause.  ``aco.py`` checks the loaded functions
against its numpy paths before it uses them, and runs the numpy paths
where ``load`` fails.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import tempfile
from importlib import resources
from pathlib import Path

FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_I64, _PTR = ctypes.c_int64, ctypes.c_void_p
# Each function that roulette.c exports: its argument and return types.
_SIGNATURES = {
    "sinepath_colony": ((_I64, _I64, _PTR, _PTR, _PTR, _I64, _PTR, _PTR, _PTR), ctypes.c_int),
    "sinepath_update": ((_I64, _PTR, ctypes.c_double, _PTR, _I64, _PTR, ctypes.c_double), None),
    "sinepath_draws": ((_I64, _PTR, _I64, _PTR, _PTR), None),
}


class Unavailable(Exception):
    """The compiled calls cannot be built or loaded; the message says why."""


def cache_dir() -> Path:
    """Where compiled objects are cached; each cache home counts only as an
    absolute path, and ``Unavailable`` is raised where neither is one."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if os.path.isabs(base):
        return Path(base) / "sinepath"
    home = os.path.expanduser("~")
    if not os.path.isabs(home):
        raise Unavailable("no cache directory: neither XDG_CACHE_HOME nor the home "
                          f"directory ({home!r}) is an absolute path")
    return Path(home) / ".cache" / "sinepath"


def object_path(source: bytes) -> Path:
    """Where the object compiled from ``source`` with ``FLAGS`` is cached."""
    key = hashlib.sha256(b"\0".join([source, *(f.encode() for f in FLAGS)])).hexdigest()
    return cache_dir() / f"roulette-{key[:16]}.so"


def load() -> ctypes.CDLL:
    """The compiled ``roulette.c``, each function in ``_SIGNATURES`` bound to
    its signature, built into the cache first if it is not there."""
    source = resources.files(__package__).joinpath("roulette.c").read_bytes()
    path = object_path(source)
    if not path.is_file():
        _build(source, path)
    try:
        lib = ctypes.CDLL(str(path))
        for name, (argtypes, restype) in _SIGNATURES.items():
            function = getattr(lib, name)
            function.argtypes, function.restype = argtypes, restype
    except (OSError, AttributeError) as exc:
        raise Unavailable(f"cannot load {path}: {exc}") from None
    return lib


def _build(source: bytes, path: Path) -> None:
    # Only a cold cache needs these, so a warm one does not import them.
    import shutil
    import subprocess

    cc = shutil.which("cc")
    if cc is None:
        raise Unavailable("no C compiler (cc) on PATH")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=f".{path.stem}-", dir=path.parent)
        os.close(fd)
    except OSError as exc:
        raise Unavailable(f"cannot write to {path.parent}: {exc.strerror}") from None
    try:
        proc = subprocess.run([cc, *FLAGS, "-x", "c", "-", "-o", tmp], input=source,
                              capture_output=True, timeout=120)
        if proc.returncode != 0:
            first = proc.stderr.decode(errors="replace").strip().splitlines()[:1]
            raise Unavailable(": ".join([f"{cc} exited {proc.returncode}", *first]))
        os.replace(tmp, path)
    except (OSError, subprocess.SubprocessError) as exc:
        raise Unavailable(f"cannot build {path}: {exc}") from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
