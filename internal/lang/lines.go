package lang

import "strings"

// LineStart returns the byte offset in src at which line to (1-based)
// begins, scanning on from offset off, where line line begins. ok is
// false when src has fewer lines. It skips whole 2 KiB chunks while they
// hold fewer newlines than remain to be passed, so seeking is a
// vectorized count rather than a call per line.
func LineStart(src string, off, line, to int) (start int, ok bool) {
	const chunk = 2048
	for line < to && off+chunk <= len(src) {
		c := strings.Count(src[off:off+chunk], "\n")
		if c >= to-line {
			break
		}
		off += chunk
		line += c
	}
	for ; line < to; line++ {
		i := strings.IndexByte(src[off:], '\n')
		if i < 0 {
			return off, false
		}
		off += i + 1
	}
	return off, true
}
