"""The `--help` texts, built from the command table `cli` passes in.

Only a `--help` line loads this module. It takes the table as an
argument rather than importing `cli`, which under `python -m
cycleregions.cli` runs as `__main__`: importing it by name would compile
and run it a second time.
"""

from .commands import HELP_FLAGS, REQUIRED


def help_text(commands: dict, name: str | None) -> str:
    """The --help text of command `name` of `commands`, or of the program
    for None. It is the same at every terminal width."""
    if name is None:
        width = max(map(len, commands)) + 2
        lines = [
            "usage: cycleregions <command> [options]",
            "",
            "Construct, count, verify, and render maximal-region straight-line embeddings",
            "of cycle graphs.",
            "",
            "commands:",
            *(f"  {cmd:<{width}}{command.help}" for cmd, command in commands.items()),
            "",
            "Run 'cycleregions <command> --help' for a command's options.",
        ]
        return "\n".join(lines) + "\n"
    command = commands[name]
    rows = [(_label(opt), opt.help + _default(opt)) for opt in command.options]
    rows.append((", ".join(HELP_FLAGS), "print this help and exit"))
    width = max(len(label) for label, _ in rows) + 2
    positional = "".join(f" {opt.flag}" for opt in command.options if opt.flag[0] != "-")
    lines = [f"usage: cycleregions {name}{positional} [options]", "", command.help, ""]
    lines += [f"  {label:<{width}}{text}" for label, text in rows]
    return "\n".join(lines) + "\n"


def _label(opt) -> str:
    if opt.flag[0] != "-":
        return opt.flag
    if opt.kind is bool:
        return f"--[no-]{opt.flag[2:]}" if opt.default is True else opt.flag
    if isinstance(opt.kind, tuple):
        return f"{opt.flag} {{{','.join(opt.kind)}}}"
    return f"{opt.flag} {'N' if opt.kind is int else 'TEXT'}"


def _default(opt) -> str:
    if opt.default is REQUIRED:
        return " (required)"
    if opt.default is None:
        return ""
    if opt.kind is bool:
        return " (default on)" if opt.default else " (default off)"
    return f" (default {opt.default})"
