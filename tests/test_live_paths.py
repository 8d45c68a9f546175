"""Every function in the package is reached by the command line.

The CLI's commands run in-process under ``sys.setprofile``; every function
or method of ``src/ofifnet`` must be entered at least once, so that no code
lives that only the tests reach. The few exceptions are allowlisted, each
with its reason, and an allowlisted name must still exist and still not be
entered.

Functions are matched by qualified name. Python 3.10 has no
``co_qualname``, so the inventory compiles each module and names every code
object by its nesting; compiled and imported code agree on
``co_firstlineno``, which for a decorated function is its decorator's line.
"""

import inspect
import json
import sys
import types
from pathlib import Path

import numpy as np

import ofifnet
from ofifnet.cli import main, write_wav

F32 = np.float32

PACKAGE_DIR = Path(ofifnet.__file__).parent

# qualified name -> why no command enters it
ALLOWLIST = {
    "TfcaBlock.attentions": "the attention matrices are the reference the attention "
                            "invariant tests compare the engine against; no command prints them",
}

# full pipeline with skinny channels: cheap weights, same code paths
SKINNY_CONFIG = {"encoder_channels": [2, 2, 2, 2, 2], "tfsm_hidden": [2]}

# 129 frames: one more than a fresh attention history holds, so it grows
STREAM_SAMPLES = 16896


def package_functions() -> dict:
    """(co_filename, co_firstlineno, co_name) -> qualified name, for every
    function and method defined in the package's modules."""
    found = {}

    def visit(code, prefix):
        for const in code.co_consts:
            if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
                continue                        # lambdas and comprehensions
            qualname = prefix + const.co_name
            if const.co_flags & inspect.CO_OPTIMIZED:
                found[(const.co_filename, const.co_firstlineno, const.co_name)] = qualname
                visit(const, qualname + ".<locals>.")
            else:                               # a class body
                visit(const, qualname + ".")

    for path in sorted(PACKAGE_DIR.glob("*.py")):
        visit(compile(path.read_text(encoding="utf-8"), str(path), "exec"), "")
    return found


def clear_caches() -> None:
    """Empty the package's ``functools.cache``s, so that a cached function
    runs again, as in a fresh process, whatever the tests before called."""
    for name, module in list(sys.modules.items()):
        if name == "ofifnet" or name.startswith("ofifnet."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def entered_code(commands) -> set:
    """Code objects entered while ``main`` runs each (argv, expected status)."""
    seen = set()
    clear_caches()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv, status in commands:
            assert main(argv) == status, argv
    finally:
        sys.setprofile(previous)
    return seen


def test_every_function_is_on_a_command_path(tmp_path, capsys):
    skinny = tmp_path / "skinny.json"
    skinny.write_text(json.dumps(SKINNY_CONFIG))
    config, weights = str(tmp_path / "c.json"), str(tmp_path / "w.ofn")
    wave = np.random.default_rng(0).uniform(-0.5, 0.5, STREAM_SAMPLES).astype(F32)
    noisy = str(tmp_path / "in.wav")
    write_wav(noisy, wave)
    out = str(tmp_path / "out.wav")
    commands = [
        (["weights", "init", "--seed", "5", "--out", weights, "--config", str(skinny),
          "--config-out", config], 0),
        (["weights", "inspect", weights], 0),
        (["weights", "param-count", weights], 0),
        (["enhance", "--in", noisy, "--out", out, "--weights", weights, "--config", config], 0),
        (["enhance", "--in", noisy, "--out", str(tmp_path / "offline.wav"),
          "--weights", weights, "--config", config, "--mode", "offline"], 0),
        (["stream", "--in", noisy, "--out", str(tmp_path / "stream.wav"), "--weights", weights,
          "--config", config, "--chunk-ms", "8", "--report-latency"], 0),
        (["verify", "--config", config, "--trials", "1", "--length", "2000", "--verbose"], 0),
        (["verify", "--weights", weights, "--config", config, "--trials", "1",
          "--length", "2000", "--mode", "offline"], 1),
        (["metrics", "--est", out, "--ref", noisy], 0),
        (["stream", "--no-such-flag"], 2),
    ]
    seen = {(c.co_filename, c.co_firstlineno, c.co_name) for c in entered_code(commands)}
    capsys.readouterr()

    functions = package_functions()
    never = sorted({name for key, name in functions.items() if key not in seen})
    assert not [n for n in never if n not in ALLOWLIST], (
        f"never entered by a command: {[n for n in never if n not in ALLOWLIST]}")
    names = set(functions.values())
    stale = [n for n in ALLOWLIST if n not in names or n not in never]
    assert not stale, f"allowlisted but entered or gone: {stale}"
