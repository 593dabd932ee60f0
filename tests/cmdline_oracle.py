"""Reference tokenizers, used only by tests.

`tokenize_posix` and `tokenize_msvc` are the command-line word splitters
as first written: one character at a time, with explicit quote state.
The runtime scanners in `flagtrace.cmdline` are single regex passes and
must give the same words (after dropping empty ones) and raise
`UnterminatedQuote` at the same position on every input.
"""

from flagtrace.errors import UnterminatedQuote


def tokenize_posix(line: str) -> list[str]:
    words: list[str] = []
    buf: list[str] = []
    has_word = False
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c in " \t\r\n":
            if has_word:
                words.append("".join(buf))
                buf, has_word = [], False
            i += 1
        elif c == "'":
            j = line.find("'", i + 1)
            if j < 0:
                raise UnterminatedQuote(i)
            buf.append(line[i + 1 : j])
            has_word = True
            i = j + 1
        elif c == '"':
            start = i
            i += 1
            has_word = True
            closed = False
            while i < n:
                c = line[i]
                if c == '"':
                    closed = True
                    i += 1
                    break
                if c == "\\" and i + 1 < n and line[i + 1] in '"\\$`\n':
                    if line[i + 1] != "\n":
                        buf.append(line[i + 1])
                    i += 2
                else:
                    buf.append(c)
                    i += 1
            if not closed:
                raise UnterminatedQuote(start)
        elif c == "\\":
            if i + 1 < n:
                if line[i + 1] != "\n":
                    buf.append(line[i + 1])
                    has_word = True
                i += 2
            else:
                buf.append("\\")
                has_word = True
                i += 1
        else:
            buf.append(c)
            has_word = True
            i += 1
    if has_word:
        words.append("".join(buf))
    return words


def tokenize_msvc(line: str) -> list[str]:
    # CommandLineToArgvW rules: 2n backslashes + quote -> n backslashes and
    # a quote toggle; 2n+1 backslashes + quote -> n backslashes and a
    # literal quote; backslashes not before a quote are literal.
    words: list[str] = []
    buf: list[str] = []
    has_word = False
    in_quote = False
    quote_start = -1
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c in " \t\r\n" and not in_quote:
            if has_word:
                words.append("".join(buf))
                buf, has_word = [], False
            i += 1
        elif c == "\\":
            j = i
            while j < n and line[j] == "\\":
                j += 1
            count = j - i
            if j < n and line[j] == '"':
                buf.append("\\" * (count // 2))
                if count % 2 == 0:
                    if not in_quote:
                        quote_start = j
                    in_quote = not in_quote
                else:
                    buf.append('"')
                has_word = True
                i = j + 1
            else:
                buf.append("\\" * count)
                has_word = True
                i = j
        elif c == '"':
            if not in_quote:
                quote_start = i
            in_quote = not in_quote
            has_word = True
            i += 1
        else:
            buf.append(c)
            has_word = True
            i += 1
    if in_quote:
        raise UnterminatedQuote(quote_start)
    if has_word:
        words.append("".join(buf))
    return words
