package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"

	"cosma/internal/machine"
)

// The JSON data plane of /v1/multiply. A request is two long arrays of
// floats and a response is one, so the codec works on a byte buffer:
// the plain form of a request is scanned directly, each number in one
// pass that checks its grammar and gathers its digits, converting the
// exact case itself and the rest with strconv; everything else goes to
// encoding/json unchanged, and the response is appended in
// encoding/json's own float format. Both directions produce exactly
// what encoding/json would — codec_test.go, FuzzMultiplyHandler and
// FuzzScanFloats hold them to that.

// errLongNumber refuses a number of more than 800 mantissa digits, which
// strconv reads from the 800 it keeps: "1" + 800 zeros + "e-800" is 0.1.
var errLongNumber = errors.New("serve: a number has more than 800 mantissa digits")

const longNumber = -2 // the scanners' index for errLongNumber

// decodeRequest parses one request body. Every body gets the result —
// and, when malformed, the error — json.Decoder gives it, bar
// errLongNumber: scanRequest only ever accepts a body both agree on.
// Scanned operands are machine pool buffers; a partial scan's go back.
func decodeRequest(body []byte) (MultiplyRequest, error) {
	var req MultiplyRequest
	ok, err := scanRequest(body, &req)
	if ok {
		return req, nil
	}
	req.release()
	req = MultiplyRequest{}
	if err == nil {
		err = json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	}
	return req, err
}

// scanRequest fills req from the plain form of a request body and
// reports whether body had it: one object and nothing but whitespace
// after it, the exact keys "m", "n", "k" (integers of at most nine
// digits) and "a", "b" (arrays of JSON-grammar numbers float64 can
// hold), each at most once, in any order, with any whitespace. On false
// req is partly written and body may still be valid JSON (a null
// element, an upper-case or escaped key, a repeated key, trailing text):
// the caller decodes it with encoding/json, unless err is set.
func scanRequest(body []byte, req *MultiplyRequest) (bool, error) {
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return false, nil
	}
	i = skipSpace(body, i+1)
	if i < len(body) && body[i] == '}' {
		return skipSpace(body, i+1) == len(body), nil
	}
	var seen [256]bool
	for {
		// A key is exactly three bytes: quote, one letter, quote.
		if i+3 > len(body) || body[i] != '"' || body[i+2] != '"' || seen[body[i+1]] {
			return false, nil
		}
		key := body[i+1]
		seen[key] = true
		i = skipSpace(body, i+3)
		if i == len(body) || body[i] != ':' {
			return false, nil
		}
		i = skipSpace(body, i+1)
		switch key {
		case 'm':
			i = scanDim(body, i, &req.M)
		case 'n':
			i = scanDim(body, i, &req.N)
		case 'k':
			i = scanDim(body, i, &req.K)
		case 'a':
			i = scanFloats(body, i, &req.A)
		case 'b':
			i = scanFloats(body, i, &req.B)
		default:
			return false, nil
		}
		if i == longNumber {
			return false, errLongNumber
		}
		if i < 0 {
			return false, nil
		}
		i = skipSpace(body, i)
		if i == len(body) {
			return false, nil
		}
		switch body[i] {
		case ',':
			i = skipSpace(body, i+1)
		case '}':
			return skipSpace(body, i+1) == len(body), nil
		default:
			return false, nil
		}
	}
}

func skipSpace(s []byte, i int) int {
	for i < len(s) && (s[i] == ' ' || s[i] == '\n' || s[i] == '\t' || s[i] == '\r') {
		i++
	}
	return i
}

// scanDim reads an integer of at most nine digits (so it fits an int
// on every platform) at s[i:] and returns the index after it, or -1.
// A fraction or exponent — which encoding/json refuses for an int
// field — ends up at the caller's delimiter check and falls back.
func scanDim(s []byte, i int, dst *int) int {
	neg := i < len(s) && s[i] == '-'
	if neg {
		i++
	}
	start, v := i, 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		v = v*10 + int(s[i]-'0')
		i++
	}
	if n := i - start; n == 0 || n > 9 || (n > 1 && s[start] == '0') {
		return -1
	}
	if neg {
		v = -v
	}
	*dst = v
	return i
}

// scanFloats reads an array of numbers at s[i:] into *dst and returns
// the index after its closing bracket, or -1 or longNumber. The slice is
// a pool buffer sized from the commas up to that bracket, never from
// anything the client merely claims; it is in *dst even if the scan
// fails.
func scanFloats(s []byte, i int, dst *[]float64) int {
	if i == len(s) || s[i] != '[' {
		return -1
	}
	i++
	end := bytes.IndexByte(s[i:], ']')
	if end < 0 {
		return -1
	}
	end += i
	i = skipSpace(s, i)
	if i == end {
		*dst = []float64{}
		return end + 1
	}
	n := bytes.Count(s[i:end], []byte{','}) + 1
	if 2*n-1 > end-i {
		return -1 // an element and its comma take two bytes: not all n are numbers
	}
	out := machine.Loan(n)[:0]
	*dst = out
	for {
		v, j := scanNumber(s, i)
		if j < 0 {
			return j
		}
		out = append(out, v)
		i = skipSpace(s, j)
		if i == end {
			*dst = out
			return end + 1
		}
		if s[i] != ',' {
			return -1
		}
		i = skipSpace(s, i+1)
	}
}

// scanNumber reads the JSON-grammar number at s[i:],
//
//	-? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?
//
// and returns its float64 and the index after it, or -1 if there is
// none or float64 cannot hold it (longNumber past 800 mantissa digits,
// leading zeros included). The loop that checks the grammar also
// gathers the significant digits into mant while it is below 2⁵³
// (leading zeros add nothing) and into exp the power of ten they are
// scaled by. Where all of them fit and |exp| ≤ 22, both mant and
// 10^|exp| are exact float64s, so one multiply or divide rounds to the
// correct value: Clinger's exact case, the one strconv tries first.
// Every other number is strconv's, from the same bytes. strconv reads
// more than the JSON grammar (hex, underscores, "Inf"), so it only sees
// what the grammar let through, and what it refuses is out of float64's
// range, as it is for encoding/json.
func scanNumber(s []byte, i int) (float64, int) {
	start := i
	neg := i < len(s) && s[i] == '-'
	if neg {
		i++
	}
	var mant uint64
	exp, digits := 0, 1
	if i < len(s) && s[i] == '0' {
		i++
	} else {
		j := i
		for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
			if mant < 1<<53 {
				mant = 10*mant + uint64(s[i]-'0')
			}
		}
		if i == j {
			return 0, -1
		}
		digits = i - j
	}
	if i < len(s) && s[i] == '.' {
		i++
		j := i
		for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
			if mant < 1<<53 {
				mant = 10*mant + uint64(s[i]-'0')
				exp--
			}
		}
		if i == j {
			return 0, -1
		}
		digits += i - j
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		eneg := i < len(s) && s[i] == '-'
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		j, e := i, 0
		for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
			if e < 10000 { // where strconv stops: its value, not the true one
				e = 10*e + int(s[i]-'0')
			}
		}
		if i == j {
			return 0, -1
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	if digits > 800 {
		return 0, longNumber
	}
	if mant < 1<<53 && -22 <= exp && exp <= 22 {
		f := float64(mant)
		if exp < 0 {
			f /= math.Pow10(-exp)
		} else {
			f *= math.Pow10(exp)
		}
		if neg {
			f = -f
		}
		return f, i
	}
	f, err := strconv.ParseFloat(string(s[start:i]), 64)
	if err != nil {
		return 0, -1
	}
	return f, i
}

// appendResponse appends exactly the bytes json.NewEncoder(w).Encode(resp)
// writes, trailing newline included. A NaN or infinite word, which JSON
// cannot carry, is an error and dst is to be discarded.
func appendResponse(dst []byte, resp *MultiplyResponse) ([]byte, error) {
	dst = append(dst, `{"m":`...)
	dst = strconv.AppendInt(dst, int64(resp.M), 10)
	dst = append(dst, `,"n":`...)
	dst = strconv.AppendInt(dst, int64(resp.N), 10)
	dst = append(dst, `,"c":`...)
	if resp.C == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, f := range resp.C {
			if i > 0 {
				dst = append(dst, ',')
			}
			if math.IsInf(f, 0) || math.IsNaN(f) {
				return dst, fmt.Errorf("serve: product word %d is %v, which JSON cannot carry", i, f)
			}
			dst = appendFloat(dst, f)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"algorithm":`...)
	dst = appendString(dst, resp.Algorithm)
	dst = append(dst, `,"grid":`...)
	dst = appendString(dst, resp.Grid)
	dst = append(dst, `,"max_recv_words":`...)
	dst = strconv.AppendInt(dst, resp.MaxRecv, 10)
	return append(dst, "}\n"...), nil
}

// appendFloat is encoding/json's float64 format: the shortest digits
// that round-trip, positional except below 1e-6 and from 1e21, where
// the exponent loses the zero strconv pads a negative one with.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// appendString leaves the two short report strings to encoding/json,
// which owns the escaping rules (HTML-safe, invalid UTF-8 replaced).
func appendString(dst []byte, s string) []byte {
	b, _ := json.Marshal(s) // a string always marshals
	return append(dst, b...)
}
