"""Print the line split of src/friendcast/*.py: code, docstring, comment and blank lines per module.

Each line of a module counts once: a docstring's lines (blank ones too),
then lines with code tokens, then comment-only lines; the rest are blank.
Given the root of another checkout, it also prints each module's code
lines there and here, and the total, counted by these same rules. CI
writes both tables to each run's summary; run it locally with

    python3 tools/src_lines.py [BASE_CHECKOUT]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path("src") / "friendcast"
SRC = Path(__file__).resolve().parent.parent / PACKAGE
COLUMNS = ("code", "docstring", "comment", "blank")
LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def line_split(text: str) -> dict[str, int]:
    doc = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr) \
                and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
            doc.update(range(body[0].lineno, body[0].end_lineno + 1))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= doc
    comment -= code | doc
    n = len(text.splitlines())
    return dict(code=len(code), docstring=len(doc), comment=len(comment), blank=n - len(code | doc | comment))


def splits(src: Path) -> dict[str, dict[str, int]]:
    return {path.name: line_split(path.read_text()) for path in sorted(src.glob("*.py"))}


def main(argv: list[str]) -> None:
    if len(argv) > 1:
        sys.exit(f"usage: python3 {Path(__file__).name} [BASE_CHECKOUT]")
    here = splits(SRC)
    print(f"{'module':<16}" + "".join(f"{c:>11}" for c in COLUMNS))
    totals = dict.fromkeys(COLUMNS, 0)
    for name, row in here.items():
        for c in COLUMNS:
            totals[c] += row[c]
        print(f"{name:<16}" + "".join(f"{row[c]:>11}" for c in COLUMNS))
    print(f"{'total':<16}" + "".join(f"{totals[c]:>11}" for c in COLUMNS))
    if argv:
        base = splits(Path(argv[0]) / PACKAGE)
        print(f"\n{'code lines':<16}{'base':>11}{'here':>11}")
        code = {name: [split.get(name, {}).get("code", 0) for split in (base, here)] for name in sorted(base | here)}
        for name, (before, after) in [*code.items(), ("total", map(sum, zip(*code.values())))]:
            print(f"{name:<16}{before:>11} ->{after:>8}")


if __name__ == "__main__":
    main(sys.argv[1:])
