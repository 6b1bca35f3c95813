module github.com/neurogo/neurogo/bench

go 1.24

require github.com/neurogo/neurogo v0.0.0

replace github.com/neurogo/neurogo => ../
