"""Count the code lines of each flowsift module: lines that hold a token
other than a comment or a docstring. Blank lines, comment lines and the
lines of a docstring (a string that is a statement of its own) do not
count; a line with code and a trailing comment does.

    python3 tools/code_lines.py [src/flowsift]

prints one "<lines>  <module>" line per .py file under the directory, in
name order, then "<total>  total"."""
from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

# tokens after which a string starts a statement of its own
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}
# tokens that are layout, not code (NL and COMMENT are dropped first)
_LAYOUT = _STATEMENT_START | {tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of source that hold code."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type not in (tokenize.NL, tokenize.COMMENT)]
    lines: set[int] = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        if (tok.type == tokenize.STRING
                and (i == 0 or tokens[i - 1].type in _STATEMENT_START)
                and tokens[i + 1].type == tokenize.NEWLINE):
            continue        # a docstring, or a bare string statement
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src/flowsift")
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
