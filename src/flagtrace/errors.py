"""Exception types shared across flagtrace modules."""


class FlagtraceError(Exception):
    """Base class for all flagtrace-specific errors."""


class UnterminatedQuote(FlagtraceError):
    def __init__(self, position: int):
        super().__init__(f"unterminated quote at position {position}")
        self.position = position


class ResponseFileNotFound(FlagtraceError):
    def __init__(self, path: str):
        super().__init__(f"response file not found: {path}")


class ResponseFileCycle(FlagtraceError):
    def __init__(self, chain: list[str]):
        super().__init__("response file cycle: " + " -> ".join(chain))


class NestingTooDeep(FlagtraceError):
    def __init__(self, depth: int):
        super().__init__(f"response file nesting exceeds depth {depth}")


class MalformedDb(FlagtraceError):
    def __init__(self, reason: str, index: int | None = None):
        where = f" (entry {index})" if index is not None else ""
        super().__init__(f"malformed compilation database{where}: {reason}")
        self.index = index


class MalformedRecord(FlagtraceError):
    def __init__(self, file: str, line: int, reason: str = ""):
        detail = f": {reason}" if reason else ""
        super().__init__(f"malformed wrapper record at {file}:{line}{detail}")
        self.line = line


class DuplicateOutput(FlagtraceError):
    def __init__(self, path: str):
        super().__init__(f"two translation units claim output {path}")


class DuplicateBuildId(FlagtraceError):
    def __init__(self, build_id: str):
        super().__init__(f"build id already stored: {build_id}")


class NotFound(FlagtraceError):
    def __init__(self, build_id: str):
        super().__init__(f"no snapshot with build id: {build_id}")


class MalformedIndex(FlagtraceError):
    def __init__(self, path: str, line: int, reason: str = "expected 5 tab-separated fields"):
        super().__init__(f"malformed store index {path} line {line}: {reason}")
        self.line = line


class CorruptSnapshot(FlagtraceError):
    def __init__(self, expected: str, actual: str, reason: str = "snapshot hash mismatch"):
        super().__init__(f"{reason}: expected {expected}, got {actual}")


class NotElf(FlagtraceError):
    def __init__(self, path: str):
        super().__init__(f"not an ELF file: {path}")


class UnsupportedClass(FlagtraceError):
    def __init__(self, detail: str):
        super().__init__(f"unsupported ELF flavor: {detail}")


class MalformedNote(FlagtraceError):
    def __init__(self, offset: int, reason: str = ""):
        detail = f": {reason}" if reason else ""
        super().__init__(f"malformed note at offset {offset}{detail}")


class ConfigError(FlagtraceError):
    pass
