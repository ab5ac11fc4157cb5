"""The help texts of kgo and of each subcommand, written from cli.COMMANDS.

Only -h or --help loads this module, so no other start compiles it.
"""

from .cli import COMMANDS, Option


def _spelled(option: Option) -> str:
    """An option as its help writes it: the flag, then what its value is."""
    if option.convert is None:
        return option.flag
    braced = option.choices and "{" + ",".join(option.choices) + "}"
    return f"{option.flag} {option.metavar or braced or option.dest.upper()}"


def help_text(name: str | None) -> str:
    """The help text of a subcommand, or of kgo for None: one line per entry,
    never wrapped, so it is the same at every terminal width."""
    if name is None:
        usage, heading = "kgo [-h] command ...", "commands"
        about = "Spectral toolkit for the one-dimensional Klein-Gordon oscillator."
        entries = [(command, text) for command, (text, _, _) in COMMANDS.items()]
    else:
        about, _, options = COMMANDS[name]
        usage = " ".join([f"kgo {name} [-h]", *(_spelled(option) if option.required
                                                 else f"[{_spelled(option)}]"
                                                 for option in options)])
        heading = "options"
        entries = [("-h, --help", "show this help message and exit"),
                   *((_spelled(option), option.help) for option in options)]
    width = max(len(left) for left, _ in entries) + 2
    rows = [f"  {left:<{width}}{text}".rstrip() for left, text in entries]
    return "\n".join([f"usage: {usage}", "", about, "", f"{heading}:", *rows]) + "\n"
