"""Run configuration files: INI-style text that mirrors the CLI flags.

A run file has a [run] section naming the subcommand and an [args] section
with one key per flag (dest names, underscores). Values stay strings at this
layer; the CLI reads them as the flags they name, and explicit flags
override file values. Values are literal (no ``%``
interpolation), and ``to_text`` refuses a config whose text would not read
back as written, so every text it returns round-trips losslessly.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field

from .models import ConfigurationError


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    args: dict = field(default_factory=dict)  # flag dest -> string value

    def to_text(self) -> str:
        """The INI text; ConfigurationError if it would not read back as this
        config (a key or value with line breaks, surrounding spaces or a
        character that the INI syntax reserves there)."""
        args = {k: str(v) for k, v in sorted(self.args.items())}
        cp = configparser.ConfigParser(interpolation=None)
        try:
            cp["run"] = {"subcommand": self.subcommand}
            cp["args"] = args
        except configparser.Error as exc:
            raise ConfigurationError(f"bad run config: {exc}") from exc
        buf = io.StringIO()
        cp.write(buf)
        text = buf.getvalue()
        back = RunConfig.from_text(text)
        if back != RunConfig(self.subcommand, args):
            bad = sorted(k for k in args.keys() | back.args.keys()
                         if args.get(k) != back.args.get(k)) or ["subcommand"]
            raise ConfigurationError(
                f"run config {', '.join(map(repr, bad))} would not read back as written")
        return text

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        cp = configparser.ConfigParser(interpolation=None)
        try:
            cp.read_string(text)
        except configparser.Error as exc:
            raise ConfigurationError(f"bad run config: {exc}") from exc
        if "run" not in cp or "subcommand" not in cp["run"]:
            raise ConfigurationError("run config needs [run] subcommand = ...")
        args = dict(cp["args"]) if "args" in cp else {}
        return cls(subcommand=cp["run"]["subcommand"].strip(), args=args)

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())
