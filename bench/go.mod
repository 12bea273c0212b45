module github.com/hourglass/sbon/bench

go 1.24

require github.com/hourglass/sbon v0.0.0

replace github.com/hourglass/sbon => ../
