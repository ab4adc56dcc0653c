#!/usr/bin/env python3
"""Gate on exported values that nothing outside their module uses.

Scans every `val` and `external` of lib/**/*.mli against the OCaml
sources of lib/, bin/, edgebench/, examples/ and test/, and lists each
one that no file other than its own module's .ml and .mli uses. Such a
value is either dead (its .ml does not use it either) or internal (only
its own .ml uses it, so it belongs out of the interface). Tests count as
users: an export only tests call is not a hit. The scan reads the tree
and changes nothing.

A use of value `name` of module `M` (file m.mli) is any of:

    M.name              also reached as Lib.M.name
    X.name              in a file that says `module X = [Lib.]M`
    name                bare, in a file that opens M: `open M`,
                        `let open M in`, or a local open `M.( ... )`,
                        `M.[ ... ]`, `M.{ ... }` (through X too)

Comments and string literals are skipped. The scan is lexical, so it
can miss a hit (a bare `name` in a file that opens M may be something
else) but never reports a value a file names through one of the forms
above. A value used only through a functor application (for instance
as `hash` of a `Hashtbl.Make` argument) would be a false hit: it goes
in ALLOWED below with its reason. None needs that today.

Exits 1 and prints one line per hit when there is any, 0 otherwise:

    python3 test/dead_exports.py [--root DIR]

`dune runtest` runs it (see test/dune).
"""

import argparse
import os
import re
import sys

# "Module.value" -> why the scan cannot see its use.
ALLOWED = {}

SCANNED = ["lib", "bin", "edgebench", "examples", "test"]

IDENT = r"[a-z_][A-Za-z0-9_']*"
VAL = re.compile(r"^\s*(?:val|external)\s+(" + IDENT + r"|\(\s*[^)\s]+\s*\))\s*:",
                 re.M)
QUALIFIED = re.compile(r"(?<![\w'])([A-Z][\w']*)\.(" + IDENT + r")")
ALIAS = re.compile(r"\bmodule\s+([A-Z][\w']*)\s*=\s*(?:[A-Z][\w']*\.)*([A-Z][\w']*)"
                   r"(?![\w'.(])")
OPEN = re.compile(r"\bopen!?\s+(?:[A-Z][\w']*\.)*([A-Z][\w']*)(?![\w'.])")
LOCAL_OPEN = re.compile(r"(?<![\w'])([A-Z][\w']*)\.\s*[(\[{]")
CHAR = re.compile(r"'(?:\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-7]{3})|[^\\'\n])'")
QUOTED = re.compile(r"\{([a-z_]*)\|")


def strip(src):
    """The source with comments and string literals blanked out (each
    replaced by a space, so tokens on either side stay apart)."""
    out = []
    i, n, depth = 0, len(src), 0

    def skip_string(i):
        i += 1
        while i < n and src[i] != '"':
            i += 2 if src[i] == "\\" else 1
        return i + 1

    while i < n:
        c = src[i]
        if src.startswith("(*", i):
            depth += 1
            i += 2
        elif depth and src.startswith("*)", i):
            depth -= 1
            i += 2
            if not depth:
                out.append(" ")
        elif c == '"':
            i = skip_string(i)
            if not depth:
                out.append(" ")
        elif c == "'" and CHAR.match(src, i):
            i = CHAR.match(src, i).end()
            if not depth:
                out.append(" ")
        elif c == "{" and QUOTED.match(src, i):
            m = QUOTED.match(src, i)
            end = src.find("|" + m.group(1) + "}", m.end())
            i = n if end < 0 else end + len(m.group(1)) + 2
            if not depth:
                out.append(" ")
        else:
            if not depth:
                out.append(c)
            i += 1
    return "".join(out)


def module_of(path):
    base = os.path.basename(path).rsplit(".", 1)[0]
    return base[:1].upper() + base[1:]


def sources(root):
    for top in SCANNED:
        for d, _, files in os.walk(os.path.join(root, top)):
            if "_build" in d.split(os.sep):
                continue
            for f in sorted(files):
                if f.endswith((".ml", ".mli")):
                    yield os.path.join(d, f)


class Source:
    """What one file names: qualified uses, opened modules, bare tokens."""

    def __init__(self, path):
        with open(path, encoding="utf-8") as f:
            self.text = strip(f.read())
        self.module = module_of(path)
        alias = {}
        for m in ALIAS.finditer(self.text):
            alias[m.group(1)] = m.group(2)
        self.resolve = lambda q: alias.get(q, q)
        self.qualified = {(self.resolve(q), v)
                          for q, v in QUALIFIED.findall(self.text)}
        self.opens = {self.resolve(q) for q in OPEN.findall(self.text)}
        self.opens |= {self.resolve(q) for q in LOCAL_OPEN.findall(self.text)}
        self.tokens = set(re.findall(r"(?<![\w'.])" + IDENT, self.text))

    def uses(self, module, name):
        if name.startswith("("):
            op = name[1:-1].strip()
            return module in self.opens and op in self.text
        if (module, name) in self.qualified:
            return True
        return module in self.opens and name in self.tokens


def used_inside(ml, name):
    """Whether the module's own .ml names [name] beyond defining it."""
    if ml is None or name.startswith("("):
        return False
    bare = re.compile(r"(?<![\w'.])" + re.escape(name) + r"(?![\w'])")
    return len(bare.findall(ml.text)) > 1


def scan(root):
    files = [(p, Source(p)) for p in sources(root)]
    by_path = dict(files)
    hits = []
    for path, _ in files:
        if not (path.endswith(".mli") and
                os.path.relpath(path, root).startswith("lib" + os.sep)):
            continue
        module = module_of(path)
        with open(path, encoding="utf-8") as f:
            names = VAL.findall(strip(f.read()))
        ml = by_path.get(path[:-1])
        for name in names:
            if f"{module}.{name}" in ALLOWED:
                continue
            outside = any(src.uses(module, name) for p, src in files
                          if src.module != module)
            if not outside:
                kind = "internal" if used_inside(ml, name) else "unused"
                hits.append((os.path.relpath(path, root), module, name, kind))
    return hits


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    args = ap.parse_args()
    hits = scan(args.root)
    for path, module, name, kind in hits:
        what = ("nothing uses it" if kind == "unused"
                else "only its own module uses it")
        print(f"{path}: {module}.{name}: {what}")
    if hits:
        unused = sum(1 for h in hits if h[3] == "unused")
        print(f"dead_exports: {unused} unused, {len(hits) - unused} internal-only "
              "exports; delete them, or drop them from the .mli")
        sys.exit(1)


if __name__ == "__main__":
    main()
