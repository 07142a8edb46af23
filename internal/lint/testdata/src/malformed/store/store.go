// Package store seeds a malformed suppression: the directive below is
// missing its reason, so it must NOT silence the finding it sits on and
// must itself be reported (analyzer "adlint").
package store

type Journal struct{}

func (j *Journal) Sync() error { return nil }

func Flush(j *Journal) {
	//adlint:ignore syncerr
	j.Sync()
}
