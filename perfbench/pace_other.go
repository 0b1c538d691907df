//go:build !linux

package main

import "time"

// sleepUntil blocks until the run clock reaches t (ns since epoch).
func sleepUntil(t int64) {
	if d := t - now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}
