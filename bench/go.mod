module wackamole/bench

go 1.22

require wackamole v0.0.0

replace wackamole => ../
