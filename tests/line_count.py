"""Line and code-line counts of the spinchain package.

    python tests/line_count.py SRC

reads every module of SRC/spinchain (SRC is a checkout's `src`) and prints,
per module and in total, its line count and its code-line count: the lines
that hold a token other than a comment, a docstring or layout, so that
comments, docstrings and blank lines do not count.  A docstring is a string
token that stands as a statement of its own.  Not a test module: pytest
collects only `test_*.py`.
"""

import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def counts(path: Path) -> tuple:
    """(lines, code lines) of one module."""
    with path.open("rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    code = set()
    # a statement starts after a NEWLINE, INDENT or DEDENT, or at the top
    starts_statement = True
    for i, tok in enumerate(tokens):
        if tok.type == tokenize.STRING and starts_statement:
            after = next(t for t in tokens[i + 1:] if t.type not in (tokenize.COMMENT, tokenize.NL))
            if after.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                continue
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
        if tok.type not in (tokenize.COMMENT, tokenize.NL):
            starts_statement = tok.type in (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                                            tokenize.ENCODING)
    return len(path.read_text().splitlines()), len(code)


def main(argv: list) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    total_lines = total_code = 0
    print(f"{'module':<16}{'lines':>8}{'code':>8}")
    for path in sorted((Path(argv[0]) / "spinchain").glob("*.py")):
        lines, code = counts(path)
        total_lines, total_code = total_lines + lines, total_code + code
        print(f"{path.name:<16}{lines:>8}{code:>8}")
    print(f"{'total':<16}{total_lines:>8}{total_code:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
