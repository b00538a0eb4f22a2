"""Loader for the compiled per-packet hot path (``_fastpath.c``).

The C module implements the lean :meth:`Simulator.run` loop,
``Link._drain``, the common case of ``Switch.receive``, the
batch-advance fast path of ``Port.enqueue``, and the per-ACK transport
path (``Host.receive``, ``Receiver.on_packet``, ``Sender.on_packet`` /
``_on_ack`` / ``_maybe_send`` / ``_emit`` / ``_pace_wakeup`` and
``UnoCC.on_ack``), bit-identically to the pure-Python methods, which
stay the reference (see DESIGN.md "Performance"). :func:`activate` runs
from every ``Simulator()``; the first call builds the module with
``sysconfig``'s C compiler into a cache keyed by a hash of the source,
the compile flags and the interpreter's extension suffix, then installs
the compiled entries as the class attributes they replace. Nothing
happens at import time.

Importing this module costs nothing: the build machinery is imported on
first use. A warm start costs one ``stat`` and a ``dlopen``. Without a
compiler, headers or a writable cache the simulator runs on the
pure-Python classes with identical results; :data:`reason` then says
why.

Set :data:`ENABLED` to False before building a simulator to force the
reference path (the equality tests do).
"""

from __future__ import annotations

import os
import sys
from types import FunctionType
from typing import Callable, Optional

#: Module switch, read by every ``Simulator()``: False restores the
#: pure-Python reference methods on the classes and runs the Python loop.
ENABLED = True

#: Why the compiled path is not active ("" while it is).
reason = ""

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "_fastpath.c")
_MODULE_NAME = "repro.sim._fastpath"

#: Optimisation flags. ``-ffp-contract=off`` keeps every float operation
#: rounded separately, as Python rounds it: without it clang (always)
#: and GCC on aarch64 fuse ``x += g * (y - x)`` into one FMA, and the
#: RTT and window estimates drift from the reference by an ulp.
_CFLAGS = ("-O2", "-ffp-contract=off")

_module = None        # the bound extension module, once loaded
_tried = False        # a load was attempted (success or not)
_made: dict = {}      # reference qualname -> compiled entry


def activate() -> Optional[Callable[..., int]]:
    """Bring the class attributes in line with :data:`ENABLED`.

    Returns the compiled run loop, or None when the reference path is
    forced or the module is unavailable."""
    if not ENABLED:
        _uninstall()
        return None
    mod = _module if _tried else _load()
    if mod is None:
        return None
    _install(mod)
    return mod.run


def active() -> bool:
    """True when the compiled module is loaded and :data:`ENABLED`."""
    return ENABLED and _module is not None


def _reset() -> None:
    """Restore the reference methods and forget the loaded module, so
    the next ``Simulator()`` loads again."""
    global _module, _tried, reason
    _uninstall()
    _made.clear()
    _module = None
    _tried = False
    reason = ""


# -- build and load ------------------------------------------------------


def _load():
    import importlib.machinery
    import importlib.util

    global _module, _tried, reason
    _tried = True
    try:
        path = _build()
        spec = importlib.util.spec_from_file_location(
            _MODULE_NAME, path,
            loader=importlib.machinery.ExtensionFileLoader(_MODULE_NAME,
                                                           path))
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        _bind(mod)
    except Exception as exc:  # no compiler / headers / cache: stay Python
        reason = f"{type(exc).__name__}: {exc}"
        return None
    _module = mod
    reason = ""
    return mod


def _cache_dirs():
    """The package's ``__pycache__``, then a per-user temporary
    directory for read-only installs."""
    import tempfile

    return [
        os.path.join(os.path.dirname(_SOURCE), "__pycache__"),
        os.path.join(tempfile.gettempdir(), f"repro-fastpath-{os.getuid()}"
                     if hasattr(os, "getuid") else "repro-fastpath"),
    ]


def _build() -> str:
    """Path of the compiled module, compiling it on a cache miss."""
    import importlib.machinery
    import zlib  # not hashlib: its OpenSSL import alone adds ~3.5 MB RSS

    with open(_SOURCE, "rb") as fh:
        source = fh.read()
    key = source + " ".join(_CFLAGS).encode()
    digest = f"{zlib.crc32(key):08x}{len(key):x}"
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    name = f"_fastpath-{digest}{suffix}"
    errors = []
    for cache in _cache_dirs():
        path = os.path.join(cache, name)
        if os.path.exists(path):
            return path
        try:
            _compile(cache, path)
            return path
        except OSError as exc:
            errors.append(str(exc))
    raise OSError("; ".join(errors) or "no cache directory")


def _compiler() -> str:
    import sysconfig

    return sysconfig.get_config_var("CC") or "cc"


def _compile(cache: str, path: str) -> None:
    """Compile into a temporary file, then rename it into place, so
    concurrent builders never load a half-written module."""
    import shlex
    import subprocess
    import sysconfig
    import tempfile

    os.makedirs(cache, exist_ok=True)
    argv = shlex.split(_compiler())
    include = sysconfig.get_paths()["include"]
    if not os.path.exists(os.path.join(include, "Python.h")):
        raise OSError(f"Python.h not found in {include}")
    link = (["-bundle", "-undefined", "dynamic_lookup"]
            if sys.platform == "darwin" else ["-shared"])
    fd, tmp = tempfile.mkstemp(dir=cache, suffix=".tmp")
    os.close(fd)
    try:
        proc = subprocess.run(
            argv + [*_CFLAGS, "-fPIC", *link, "-I", include, _SOURCE,
                    "-o", tmp],
            capture_output=True, text=True)
        if proc.returncode != 0:
            raise OSError(f"compile failed: {proc.stderr.strip()[-2000:]}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    # Builds of older sources are dead weight (a process that still has
    # one loaded keeps its mapping after the unlink).
    keep = os.path.basename(path)
    suffix = keep[keep.index("."):]
    for name in os.listdir(cache):
        if (name.startswith("_fastpath-") and name.endswith(suffix)
                and name != keep):
            try:
                os.unlink(os.path.join(cache, name))
            except OSError:
                pass


# -- install -------------------------------------------------------------


def _bind(mod) -> None:
    from collections import deque

    from repro.core.unocc import UnoCC
    from repro.core.unolb import UnoLB
    from repro.sim import switch
    from repro.sim.engine import EventHandle, Simulator
    from repro.sim.host import Host
    from repro.sim.link import Link
    from repro.sim.packet import ACK_SIZE, Packet
    from repro.sim.queues import PhantomQueue, Port
    from repro.transport import base
    from repro.transport.epochs import EpochSummary, EpochTracker

    mod.bind(Simulator, EventHandle, Port, Link, switch.Switch, Packet,
             PhantomQueue, deque, Host, base.Sender, base.Receiver,
             base.SenderStats, UnoCC, EpochTracker, UnoLB,
             base.FixedEntropy, EpochSummary, vars(switch),
             base.HEADER_BYTES, ACK_SIZE)


def _targets():
    """(class, attribute, compiled entry, reference qualname). Port's
    ``receive`` aliases ``enqueue``; both names get the same entry."""
    from repro.core.unocc import UnoCC
    from repro.sim.host import Host
    from repro.sim.link import Link
    from repro.sim.queues import Port
    from repro.sim.switch import Switch
    from repro.transport.base import Receiver, Sender

    return (
        (Port, "enqueue", "enqueue", "Port.enqueue"),
        (Port, "receive", "enqueue", "Port.enqueue"),
        (Link, "_drain", "drain", "Link._drain"),
        (Switch, "receive", "switch_receive", "Switch.receive"),
        (Host, "receive", "host_receive", "Host.receive"),
        (Receiver, "on_packet", "receiver_on_packet", "Receiver.on_packet"),
        (Sender, "on_packet", "sender_on_packet", "Sender.on_packet"),
        (Sender, "_on_ack", "sender_on_ack", "Sender._on_ack"),
        (Sender, "_maybe_send", "maybe_send", "Sender._maybe_send"),
        (Sender, "_emit", "emit", "Sender._emit"),
        (Sender, "_pace_wakeup", "pace_wakeup", "Sender._pace_wakeup"),
        (UnoCC, "on_ack", "unocc_on_ack", "UnoCC.on_ack"),
    )


def _install(mod) -> None:
    """Replace each reference method with its compiled entry — unless
    something (a tracer's wrapper) already replaced it, which is left in
    place and keeps calling the reference method."""
    for cls, attr, entry, qualname in _targets():
        current = cls.__dict__.get(attr)
        if (type(current) is not FunctionType
                or current.__qualname__ != qualname):
            continue
        compiled = _made.get(qualname)
        if compiled is None:
            compiled = _made[qualname] = mod.entry(entry, current)
        setattr(cls, attr, compiled)


def _uninstall() -> None:
    if not _made:
        return
    for cls, attr, _entry, qualname in _targets():
        compiled = _made.get(qualname)
        if compiled is not None and cls.__dict__.get(attr) is compiled:
            setattr(cls, attr, compiled.__wrapped__)
