package sim

import "unicode"

// soundexCode maps a letter to its Soundex digit, or 0 for vowels and the
// ignored letters h/w/y.
func soundexCode(r byte) byte {
	switch r {
	case 'b', 'f', 'p', 'v':
		return '1'
	case 'c', 'g', 'j', 'k', 'q', 's', 'x', 'z':
		return '2'
	case 'd', 't':
		return '3'
	case 'l':
		return '4'
	case 'm', 'n':
		return '5'
	case 'r':
		return '6'
	default:
		return 0
	}
}

// SoundexCode is a four-character American Soundex encoding; the zero
// value means "no ASCII letter to encode".
type SoundexCode [4]byte

// Soundex returns the four-character American Soundex encoding of s, or ""
// when s contains no ASCII letter. Adjacent letters with the same code
// collapse, and letters separated only by h or w also collapse, per the
// standard algorithm.
func Soundex(s string) string {
	code := SoundexRunes([]rune(s))
	if code == (SoundexCode{}) {
		return ""
	}
	return string(code[:])
}

// SoundexRunes encodes a decoded value. Each rune is lower-cased on its
// own (what strings.ToLower does to the whole string) and anything outside
// a–z separates letters without being one.
//
//emlint:zeroalloc
func SoundexRunes(rs []rune) SoundexCode {
	var out SoundexCode
	n := 0
	var prev byte
	for _, r := range rs {
		if n == len(out) {
			break
		}
		r = unicode.ToLower(r)
		if r < 'a' || r > 'z' {
			prev = 0
			continue
		}
		c := byte(r)
		code := soundexCode(c)
		switch {
		case n == 0:
			out[0] = c - 'a' + 'A'
			n, prev = 1, code
		case code == 0:
			// h and w are transparent: keep prev so identical codes on
			// either side still collapse; vowels reset it.
			if c != 'h' && c != 'w' {
				prev = 0
			}
		case code != prev:
			out[n] = code
			n++
			prev = code
		}
	}
	if n == 0 {
		return SoundexCode{}
	}
	for ; n < len(out); n++ {
		out[n] = '0'
	}
	return out
}

// SoundexSim returns 1 when the Soundex encodings of a and b are equal and
// non-empty, else 0.
func SoundexSim(a, b string) float64 {
	return SoundexCodeSim(SoundexRunes([]rune(a)), SoundexRunes([]rune(b)))
}

// SoundexCodeSim is SoundexSim over encodings computed once per value.
//
//emlint:zeroalloc
func SoundexCodeSim(a, b SoundexCode) float64 {
	if a == b && a != (SoundexCode{}) {
		return 1
	}
	return 0
}
