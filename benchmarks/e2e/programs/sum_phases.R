sum <- function() {
  total <- 0
  for (i in 1:length) total <- total + data[[i]]
  total
}
